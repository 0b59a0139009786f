"""Atomic file writes."""
import pytest

from drivescore.fileio import atomic_write_chunks


class Boom(Exception):
    pass


def _chunks_then_raise():
    yield "first line\n"
    yield "second line\n"
    raise Boom


def test_chunks_are_written_in_order(tmp_path):
    target = tmp_path / "sub" / "out.jsonl"
    atomic_write_chunks(target, iter(["a\n", "", "bé\n"]))
    assert target.read_bytes() == "a\nbé\n".encode("utf-8")
    assert [p.name for p in target.parent.iterdir()] == ["out.jsonl"]


def test_failing_chunks_leave_no_file(tmp_path):
    with pytest.raises(Boom):
        atomic_write_chunks(tmp_path / "out.jsonl", _chunks_then_raise())
    assert list(tmp_path.iterdir()) == []


def test_failing_chunks_leave_an_existing_file_unchanged(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"old contents\n")
    with pytest.raises(Boom):
        atomic_write_chunks(target, _chunks_then_raise())
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
