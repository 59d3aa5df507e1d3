"""Tests for the JSONL writer and single-document JSON helpers."""

import os

import pytest

from repro.util.storage import dump_json, dump_jsonl, load_json
from tests.conftest import read_jsonl


class TestDumpLoad:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        records = [{"a": 1}, {"b": [1, 2]}, {"c": {"d": "x"}}]
        assert dump_jsonl(path, records) == 3
        assert read_jsonl(path) == records

    def test_gzip_roundtrip(self, tmp_path):
        path = str(tmp_path / "data.jsonl.gz")
        records = [{"i": i} for i in range(100)]
        dump_jsonl(path, records)
        assert read_jsonl(path) == records

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        dump_jsonl(path, [{"a": 1}])
        assert not os.path.exists(path + ".tmp")

    def test_keys_sorted_for_stable_diffs(self, tmp_path):
        path = str(tmp_path / "sorted.jsonl")
        dump_jsonl(path, [{"z": 1, "a": 2}])
        with open(path) as handle:
            assert handle.read() == '{"a":2,"z":1}\n'


class TestJsonDocument:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        payload = {"a": [1, 2, 3], "b": {"nested": True}, "c": None}
        assert dump_json(path, payload) == path
        assert load_json(path) == payload

    def test_gzip_roundtrip(self, tmp_path):
        path = str(tmp_path / "doc.json.gz")
        payload = {"rows": list(range(500))}
        dump_json(path, payload)
        assert load_json(path) == payload

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = str(tmp_path / "doc.json")
        dump_json(path, {"a": 1})
        assert not os.path.exists(path + ".tmp")

    def test_malformed_document_raises(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            handle.write("{truncated")
        with pytest.raises(ValueError, match="malformed JSON"):
            load_json(path)

    def test_keys_sorted_for_stable_diffs(self, tmp_path):
        path = str(tmp_path / "sorted.json")
        dump_json(path, {"z": 1, "a": 2})
        with open(path) as handle:
            assert handle.read() == '{"a":2,"z":1}'
