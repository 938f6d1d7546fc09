"""The perf scripts' shared plumbing: ledger writes, gates, exit status."""

# A pytest module: pytest rewrites these asserts.
# simlint: disable-file=SIM007

from __future__ import annotations

import json
from collections import Counter

import bench_datacenter
import bench_flow_churn
import common

#: (bench, commit) of each snapshot migrated from the old per-bench JSON
#: files.  A ``seed`` snapshot measured the code before the commit that
#: wrote it, so it is keyed by that commit's parent.
MIGRATED = (
    ("engine", "a582a61"),
    ("engine", "5ff6dc0"),
    ("sockets", "f453605"),
    ("observability", "8ebd854"),
    ("datacenter", "6b83783"),
    ("fabric", "76b231a"),
)

LINE_KEYS = {"bench", "commit", "python", "smoke", "results"}

#: A flow-churn run small enough for a unit test.
TINY_CHURN = ["--pairs", "1", "--relocates", "2"]


def _ledger_at(tmp_path, monkeypatch):
    """Point the ledger at a copy of the committed one under tmp_path."""
    ledger = tmp_path / common.LEDGER.name
    ledger.write_bytes(common.LEDGER.read_bytes())
    monkeypatch.setattr(common, "LEDGER", ledger)
    return ledger


def test_writing_run_appends_one_line_and_keeps_history(tmp_path,
                                                        monkeypatch):
    ledger = _ledger_at(tmp_path, monkeypatch)
    before = ledger.read_bytes()

    assert bench_flow_churn.main(TINY_CHURN) == 0

    after = ledger.read_bytes()
    assert after.startswith(before)
    added = after[len(before):].decode().splitlines()
    assert len(added) == 1
    line = json.loads(added[0])
    assert set(line) == LINE_KEYS
    assert line["bench"] == "flow_churn"
    assert line["commit"] == common.git_commit()
    assert line["smoke"] is False
    assert line["results"]["messages_lost"] == 0


def test_no_write_leaves_the_ledger_untouched(tmp_path, monkeypatch):
    ledger = _ledger_at(tmp_path, monkeypatch)
    before = ledger.read_bytes()
    assert bench_flow_churn.main(TINY_CHURN + ["--no-write"]) == 0
    assert ledger.read_bytes() == before


def test_smoke_run_under_its_floor_exits_1(tmp_path, monkeypatch, capsys):
    ledger = _ledger_at(tmp_path, monkeypatch)
    before = ledger.read_bytes()
    status = bench_datacenter.main([
        "--smoke", "--no-write", "--hosts", "8", "--racks", "2",
        "--flows", "50", "--floor", "1e12",
    ])
    assert status == 1
    assert "FAIL: flow setup" in capsys.readouterr().err
    assert ledger.read_bytes() == before


def test_each_migrated_snapshot_appears_once():
    lines = [json.loads(text)
             for text in common.LEDGER.read_text().splitlines()]
    assert all(set(line) == LINE_KEYS for line in lines)
    keys = Counter((line["bench"], line["commit"]) for line in lines)
    assert {key: keys[key] for key in MIGRATED} == dict.fromkeys(MIGRATED, 1)


def test_commit_is_unknown_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "ROOT", tmp_path)
    assert common.git_commit() == "unknown"
