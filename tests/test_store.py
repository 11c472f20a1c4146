"""ResultStore: incremental index reads, torn-line recovery, locking."""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import time
import warnings

import pytest

from repro.service import STORE_SCHEMA, ResultStore
from repro.service import store as store_mod


def index_line(fp: str, **over) -> bytes:
    """One index line as ``commit()`` writes it (sorted keys, ``\\n``)."""
    d = {
        "schema": STORE_SCHEMA,
        "fingerprint": fp,
        "kind": "run",
        "request": {"problem": "sod", "pad": "x" * 2000},
        "report": {"steps": 1},
        "payload": f"results/{fp}.pkl",
        "created": 1.0,
        "meta": {},
        **over,
    }
    return json.dumps(d, sort_keys=True).encode() + b"\n"


def write_index(root, n: int):
    root.mkdir(parents=True, exist_ok=True)
    path = root / "index.jsonl"
    path.write_bytes(b"".join(index_line(f"fp{i:05d}") for i in range(n)))
    return path


def append(path, data: bytes) -> None:
    with open(path, "ab") as fh:
        fh.write(data)


def commit(store: ResultStore, fp: str, **meta):
    return store.commit(fp, kind="run", request={}, report={}, meta=meta)


def snapshot(store: ResultStore) -> dict:
    return {e.fingerprint: e.to_dict() for e in store.entries()}


class Spy:
    """Counts ``json.loads`` calls and bytes read through ``open`` inside
    ``repro.service.store`` — the work a refresh does, not its wall time.
    ``on_close`` (optional) runs right after the store closes a file."""

    def __init__(self, monkeypatch, on_close=None) -> None:
        self.parsed = self.opened = self.bytes_read = 0
        real_loads = json.loads

        def loads(s, *a, **kw):
            self.parsed += 1
            return real_loads(s, *a, **kw)

        spy = self

        class Reader:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                if on_close is not None:
                    on_close()

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __iter__(self):
                return iter(self._fh)

            def read(self, *a):
                data = self._fh.read(*a)
                spy.bytes_read += len(data)
                return data

        def spy_open(path, mode="r", *a, **kw):
            self.opened += 1
            return Reader(open(path, mode, *a, **kw))

        monkeypatch.setattr(store_mod.json, "loads", loads)
        monkeypatch.setattr(store_mod, "open", spy_open, raising=False)

    def reset(self) -> None:
        self.parsed = self.opened = self.bytes_read = 0


class TestIncrementalRefresh:
    @pytest.mark.parametrize("n", [300, 3000])
    def test_refresh_cost_follows_new_lines_not_index_size(
        self, tmp_path, monkeypatch, n
    ):
        path = write_index(tmp_path / "s", n)
        spy = Spy(monkeypatch)
        store = ResultStore(tmp_path / "s")
        assert len(store) == n and spy.parsed == n  # the one full scan
        assert spy.bytes_read == path.stat().st_size

        spy.reset()
        for _ in range(5):
            store.refresh()
        assert (spy.parsed, spy.opened, spy.bytes_read) == (0, 0, 0)

        line = index_line("external")
        append(path, line)
        store.refresh()
        assert (spy.parsed, spy.opened, spy.bytes_read) == (1, 1, len(line))
        assert "external" in store and len(store) == n + 1

        spy.reset()
        store.refresh()
        assert (spy.parsed, spy.opened) == (0, 0)

    def test_own_commit_costs_one_line_at_next_refresh(
        self, tmp_path, monkeypatch
    ):
        write_index(tmp_path / "s", 300)
        store = ResultStore(tmp_path / "s")
        spy = Spy(monkeypatch)
        commit(store, "mine")
        store.refresh()
        assert spy.parsed == 1
        assert "mine" in store and len(store) == 301

    def test_second_store_sees_lines_appended_by_the_first(self, tmp_path):
        writer = ResultStore(tmp_path / "s")
        reader = ResultStore(tmp_path / "s")  # opened before the file exists
        writer.put("a", {"x": 1}, kind="run", request={}, report={})
        assert "a" not in reader
        reader.refresh()
        assert reader.load_result("a") == {"x": 1}
        commit(writer, "b")
        commit(writer, "c")
        reader.refresh()
        assert snapshot(reader) == snapshot(writer)
        assert snapshot(reader) == snapshot(ResultStore(tmp_path / "s"))

    def test_last_line_wins_across_a_tail_read(self, tmp_path):
        path = write_index(tmp_path / "s", 3)
        store = ResultStore(tmp_path / "s")
        append(path, index_line("fp00001", report={"steps": 2}))
        store.refresh()
        assert store.get("fp00001").report == {"steps": 2}
        append(path, index_line("dup", report={"n": 1})
               + index_line("dup", report={"n": 2}))
        store.refresh()
        assert store.get("dup").report == {"n": 2}
        assert len(store) == 4

    def test_line_format_is_the_parents(self, tmp_path):
        """A line written by ``commit`` has exactly the keys, order and
        terminator older stores hold, and such a store opens unchanged."""
        store = ResultStore(tmp_path / "s")
        entry = store.commit("f", kind="run", request={"a": 1},
                             report={"b": 2}, meta={"job": "j1"})
        raw = store.index_path.read_bytes()
        assert raw == index_line(
            "f", request={"a": 1}, report={"b": 2}, created=entry.created,
            meta={"job": "j1"},
        )
        assert list(json.loads(raw)) == sorted(
            ["schema", "fingerprint", "kind", "request", "report",
             "payload", "created", "meta"]
        )


class TestRescan:
    """Whatever happens to the file, the map equals a fresh full scan."""

    def test_truncated(self, tmp_path):
        path = write_index(tmp_path / "s", 10)
        store = ResultStore(tmp_path / "s")
        keep = len(index_line("fp00000")) * 4
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        store.refresh()
        assert len(store) == 4
        assert snapshot(store) == snapshot(ResultStore(tmp_path / "s"))

    def test_deleted_then_recreated(self, tmp_path):
        path = write_index(tmp_path / "s", 5)
        store = ResultStore(tmp_path / "s")
        path.unlink()
        store.refresh()
        assert len(store) == 0 and store.get("fp00000") is None
        commit(store, "again")
        store.refresh()
        assert snapshot(store) == snapshot(ResultStore(tmp_path / "s"))
        assert list(snapshot(store)) == ["again"]

    @pytest.mark.parametrize("n_new", [2, 5, 9])
    def test_atomically_replaced(self, tmp_path, n_new):
        """Shorter, same-size and longer replacements: identity, not size,
        tells a new file from an appended one."""
        path = write_index(tmp_path / "s", 5)
        store = ResultStore(tmp_path / "s")
        tmp = tmp_path / "s" / "index.tmp"
        tmp.write_bytes(b"".join(
            index_line(f"fp{i:05d}", report={"gen": 2}) for i in range(n_new)
        ))
        os.replace(tmp, path)
        store.refresh()
        assert len(store) == n_new
        assert all(e.report == {"gen": 2} for e in store.entries())
        assert snapshot(store) == snapshot(ResultStore(tmp_path / "s"))


class TestTornAndCorruptLines:
    def test_torn_tail_is_left_for_a_later_refresh(self, tmp_path):
        path = write_index(tmp_path / "s", 3)
        line = index_line("late")
        append(path, line[:100])  # a writer caught (or killed) mid-append
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = ResultStore(tmp_path / "s")
            store.refresh()
            assert len(store) == 3 and "late" not in store
            assert store.skipped_lines == 0
            append(path, line[100:])  # ... it was only slow
            store.refresh()
        assert "late" in store and len(store) == 4

    def test_commit_after_torn_tail_yields_a_parseable_index(self, tmp_path):
        path = write_index(tmp_path / "s", 3)
        append(path, index_line("dead")[:100])
        store = ResultStore(tmp_path / "s")
        commit(store, "next")
        assert "next" in store
        with pytest.warns(UserWarning, match=r"index\.jsonl:4: skipping"):
            store.refresh()
        assert store.skipped_lines == 1
        assert "next" in store and "dead" not in store and len(store) == 4
        with warnings.catch_warnings():  # reported once, not per refresh
            warnings.simplefilter("error")
            store.refresh()
            commit(store, "more")
            store.refresh()
        with pytest.warns(UserWarning, match="skipping"):
            fresh = ResultStore(tmp_path / "s")
        assert snapshot(fresh) == snapshot(store)
        assert fresh.skipped_lines == 1

    @pytest.mark.parametrize(
        "junk", [b"{not json", b"\xff\xfe\x00", b"[1, 2]", b"42"]
    )
    def test_corrupt_middle_line_is_skipped_and_counted(self, tmp_path, junk):
        root = tmp_path / "s"
        root.mkdir()
        (root / "index.jsonl").write_bytes(
            index_line("a") + junk + b"\n" + b"\n" + index_line("b")
        )
        with pytest.warns(UserWarning, match=r"index\.jsonl:2: skipping"):
            store = ResultStore(root)
        assert sorted(snapshot(store)) == ["a", "b"]
        assert store.skipped_lines == 1

    def test_unknown_schema_raises_with_file_and_line(self, tmp_path):
        path = write_index(tmp_path / "s", 2)
        store = ResultStore(tmp_path / "s")
        append(path, b"\n" + index_line("ok"))  # blank lines count as lines
        store.refresh()
        append(path, index_line("new", schema="repro.service/9"))
        for _ in range(2):  # refused on every refresh, not just the first
            with pytest.raises(ValueError, match=r"index\.jsonl:5: unknown "
                               r"store schema 'repro\.service/9'"):
                store.refresh()
        assert "ok" in store and "new" not in store
        with pytest.raises(ValueError, match=r"index\.jsonl:5: unknown"):
            ResultStore(tmp_path / "s")

    def test_workers_write_payloads_without_reading_the_index(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "s"
        root.mkdir()
        (root / "index.jsonl").write_bytes(index_line("x", schema="other/1"))
        spy = Spy(monkeypatch)
        rel = store_mod.write_payload(root, "abc", {"v": 7})
        assert spy.parsed == 0
        assert rel == ResultStore.payload_relpath("abc")
        with open(root / rel, "rb") as fh:
            assert pickle.load(fh) == {"v": 7}

    def test_payload_stored_before_runresult_had_a_stream_still_loads(
        self, tmp_path
    ):
        """``RunResult.stream`` arrived after payloads were already on
        disk: one pickled without the key loads and reads ``None``."""
        from repro.api import run

        res = run("sod", steps=1, nx=32, nr=8)
        del res.__dict__["stream"], res.__dict__["request"]
        store = ResultStore(tmp_path / "s")
        store.put("old", res, kind="run", request={}, report={})
        loaded = store.load_result("old")
        assert "stream" not in loaded.__dict__ and loaded.stream is None
        assert loaded.steps == 1 and loaded.state.q.shape == res.state.q.shape


class TestLocking:
    def test_commit_during_a_refresh_is_not_lost(self, tmp_path, monkeypatch):
        """A refresh used to build a new map and swap it in at the end,
        discarding an entry committed after it had read the file.  Here a
        commit is attempted from another thread just as a refresh closes
        the index it has read."""
        path = write_index(tmp_path / "s", 3)
        store = ResultStore(tmp_path / "s")
        append(path, index_line("trigger"))
        committer = threading.Thread(target=commit, args=(store, "raced"))

        def commit_now() -> None:
            if not committer.ident:
                committer.start()
                committer.join(0.2)  # done by now, or waiting for the lock

        Spy(monkeypatch, on_close=commit_now)
        store.refresh()
        committer.join(30)
        assert not committer.is_alive()
        assert "raced" in store and "trigger" in store

    def test_refresh_never_drops_a_concurrent_commit(self, tmp_path):
        """Stress: refreshes on several threads against one committer."""
        write_index(tmp_path / "s", 300)
        store = ResultStore(tmp_path / "s")
        other = ResultStore(tmp_path / "s")  # forces real tail reads
        stop = threading.Event()
        lost: list[str] = []

        def hammer() -> None:
            while not stop.is_set():
                store.refresh()
                other.refresh()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for i in range(200):
                assert time.monotonic() < deadline, "commit loop stalled"
                fp = f"new{i:03d}"
                commit(store, fp)
                for _ in range(10):  # from the moment commit returns, for good
                    if fp not in store:
                        lost.append(fp)
                        break
        finally:
            stop.set()
            for t in threads:
                t.join(30)
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert lost == []
        store.refresh()
        other.refresh()
        want = {f"new{i:03d}" for i in range(200)}
        assert want <= set(snapshot(store)) and len(store) == 500
        assert snapshot(other) == snapshot(store)
        assert snapshot(ResultStore(tmp_path / "s")) == snapshot(store)
