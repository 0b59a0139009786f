"""Atomic file writes, digests, number formatting and CSV reading."""
import hashlib
import os
import stat

import pytest

from drivescore.fileio import atomic_files, fmt_float, iter_csv_records, sha256_digest


class Boom(Exception):
    pass


def _chunks_then_raise():
    yield "first line\n"
    yield "second line\n"
    raise Boom


def test_chunks_are_written_in_order(tmp_path):
    target = tmp_path / "sub" / "out.jsonl"
    with atomic_files(target) as (f,):
        f.writelines(iter(["a\n", "", "bé\n"]))
    assert target.read_bytes() == "a\nbé\n".encode("utf-8")
    assert [p.name for p in target.parent.iterdir()] == ["out.jsonl"]


def test_failing_chunks_leave_no_file(tmp_path):
    with pytest.raises(Boom):
        with atomic_files(tmp_path / "out.jsonl") as (f,):
            f.writelines(_chunks_then_raise())
    assert list(tmp_path.iterdir()) == []


def test_failing_chunks_leave_an_existing_file_unchanged(tmp_path):
    target = tmp_path / "out.jsonl"
    target.write_bytes(b"old contents\n")
    with pytest.raises(Boom):
        with atomic_files(target) as (f,):
            f.writelines(_chunks_then_raise())
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_files_written_together_replace_their_paths_together(tmp_path):
    hourly, trips = tmp_path / "hourly.csv", tmp_path / "trips.csv"
    trips.write_bytes(b"old trips\n")
    with pytest.raises(Boom):
        with atomic_files(hourly, trips) as (h, t):
            h.write("hour 1\n")
            t.write("trip 1\n")
            raise Boom
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trips.csv"]
    assert trips.read_bytes() == b"old trips\n"
    with atomic_files(hourly, trips) as (h, t):
        h.write("hour 1\n")
        t.write("trip 1\n")
        assert not hourly.exists()
    assert (hourly.read_bytes(), trips.read_bytes()) == (b"hour 1\n", b"trip 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hourly.csv", "trips.csv"]


def test_a_directory_target_fails_before_any_file_is_made(tmp_path):
    hourly, trips, elsewhere = tmp_path / "hourly.csv", tmp_path / "trips.csv", tmp_path / "d"
    hourly.write_bytes(b"old hourly\n")
    trips.mkdir()
    with pytest.raises(IsADirectoryError, match="trips.csv"):
        with atomic_files(hourly, trips):
            pytest.fail("the block ran")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hourly.csv", "trips.csv"]
    assert hourly.read_bytes() == b"old hourly\n"
    # a link to a directory is not one: the rename replaces the link
    trips.rmdir()
    elsewhere.mkdir()
    trips.symlink_to(elsewhere)
    with atomic_files(trips) as (t,):
        t.write("trip 1\n")
    assert not trips.is_symlink() and trips.read_bytes() == b"trip 1\n"


@pytest.mark.parametrize("size", [0, 1, 1 << 16, (1 << 16) + 1])
def test_digest_is_hashlibs_sha256(tmp_path, size):
    """The built-in SHA-256 gives hashlib's digest, on either side of the
    64 KiB read chunk."""
    data = os.urandom(size)
    (tmp_path / "f").write_bytes(data)
    assert sha256_digest(tmp_path / "f") == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_files_get_the_mode_open_gives_them(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        with atomic_files(tmp_path / "one.jsonl") as (f,):
            f.write("a\n")
        with atomic_files(tmp_path / "two.csv", tmp_path / "three.csv"):
            pass
    finally:
        os.umask(old)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == \
        {"one.jsonl": mode, "two.csv": mode, "three.csv": mode}


@pytest.mark.parametrize("x,want", [
    (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), ""),
    (-0.0, "0"), (3.0, "3"), (0.1, "0.1"), (1e15, "1000000000000000.0"), (-2.5e20, "-2.5e+20")])
def test_fmt_float(x, want):
    assert fmt_float(x) == want
    if want:
        assert float(want) == x


def test_only_leading_hash_lines_are_comments(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# provenance\n# more\na,b\n#1,2\n\n3,4\n")
    assert list(iter_csv_records(path, ("b", "a"), tuple)) == [("2", "#1"), ("4", "3")]


def test_cells_come_in_column_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,b,a\n1,2,3,extra\n")
    assert list(iter_csv_records(path, ("a", "b"), tuple)) == [("3", "2")]


@pytest.mark.parametrize("data,match", [
    (b"a\n1\n", "missing columns: b"),
    (b"a,b\n1,2\n3\n", "data row 2: short row"),
    (b"a,b\n1,2\n\n3,x\n", "data row 2: could not convert"),
    pytest.param(b"a,b\n1," + b"9" * 200_000 + b"\n",
                 r"field larger than field limit \(131072\)", id="oversized cell"),
    pytest.param(b"a,b\n1,\xff\n", "'utf-8' codec can't decode byte 0xff", id="not utf-8"),
])
def test_errors_name_file_and_data_row(tmp_path, data, match):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match) as info:
        list(iter_csv_records(path, ("a", "b"), lambda cells: float(cells[1])))
    assert str(info.value).startswith(f"{path}: ")
