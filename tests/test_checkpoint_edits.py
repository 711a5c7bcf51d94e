"""Edits to a campaign checkpoint, and what a resume makes of them.

A checkpoint holds each chunk's f(n) only, and every run checks that the
combinatorial pi(from^2) plus the sum of f(n) equals the combinatorial
pi((to+1)^2). So a resume of an edited file must exit 2 (the file is not as
written) or 3 (its counts miss the seeds), or print the fresh run's bytes
(the edit only cut the leading run of chunks it loads short). The one edit
no sum can see, a prime moved between two neighbouring windows, is pinned
below as the known gap.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from primesq import cli

SPAN = ["verify", "c2", "--from", "3", "--to", "1600", "--format", "csv"]  # four chunks


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The checkpoint lines and the CSV of one fresh campaign over SPAN, and a path to resume edits from."""
    ck = tmp_path_factory.mktemp("edits") / "ck.txt"
    rc, out, _ = _cli(SPAN + ["--checkpoint", str(ck)])
    assert rc == 0
    return ck.read_text().splitlines(), out, ck


def _retyped(value):
    return st.sampled_from([str(value), float(value), bool(value), None, [value], {"v": value}])


@st.composite
def _edits(draw, lines: list[str]) -> list[str]:
    """lines with one edit: an f raised, lowered or made negative, a record
    shifted, dropped, duplicated or swapped with another, a line truncated,
    or one value's type changed."""
    recs = [json.loads(line) for line in lines[1:]]
    lines = list(lines)
    i = draw(st.integers(0, len(recs) - 1))
    rec = recs[i]
    row = draw(st.integers(0, len(rec["f"]) - 1))
    kind = draw(st.sampled_from(["f", "negative-f", "shift", "drop", "duplicate", "swap", "truncate", "type"]))
    if kind == "f":
        rec["f"][row] += draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    elif kind == "negative-f":
        rec["f"][row] = draw(st.integers(-10**6, -1))
    elif kind == "shift":
        rec["chunk_start"] += draw(st.integers(1, 600)) * draw(st.sampled_from([-1, 1]))
    elif kind == "drop":
        del lines[1 + i]
        return lines
    elif kind == "duplicate":
        lines.insert(1 + i, lines[1 + i])
        return lines
    elif kind == "swap":
        j = (i + draw(st.integers(1, len(recs) - 1))) % len(recs)
        lines[1 + i], lines[1 + j] = lines[1 + j], lines[1 + i]
        return lines
    elif kind == "truncate":
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][:draw(st.integers(0, len(lines[at]) - 1))]
        return lines
    else:
        header = json.loads(lines[0])
        where = draw(st.sampled_from(["header", "chunk_start", "f(n)", "f"]))
        if where == "header":
            key = draw(st.sampled_from(sorted(header)))
            header[key] = draw(_retyped(header[key]))
            lines[0] = json.dumps(header)
            return lines
        if where == "chunk_start":
            rec["chunk_start"] = draw(_retyped(rec["chunk_start"]))
        elif where == "f(n)":
            rec["f"][row] = draw(_retyped(rec["f"][row]))
        else:
            rec["f"] = draw(_retyped(rec["f"][row]))
    lines[1 + i] = json.dumps(rec)
    return lines


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_an_edited_checkpoint_exits_2_or_3_or_resumes_to_the_fresh_bytes(fresh, data):
    lines, csv, ck = fresh
    edited = "\n".join(data.draw(_edits(lines), label="edited lines")) + "\n"
    for workers in ("1", "2"):
        ck.write_text(edited)
        rc, out, err = _cli(SPAN + ["--workers", workers, "--checkpoint", str(ck), "--resume"])
        event(f"exit {rc}")
        if rc == 0:
            fresh_bytes = out == csv  # named, so a failure does not diff two whole CSVs
            assert fresh_bytes
        else:
            assert rc in (2, 3) and out == "" and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("n", [700, 1026])  # within a chunk, then across the edge of chunks 1 and 2
def test_a_prime_moved_between_neighbouring_windows_goes_through(fresh, workers, n):
    """The known gap: f(n) - 1 and f(n+1) + 1 keep every sum, so the resume
    exits 0 with rows that differ from the fresh run's. Only a second count of
    f, one that shares no code with the sieve, can catch this edit."""
    lines, csv, ck = fresh
    recs = [json.loads(line) for line in lines[1:]]
    starts = [rec["chunk_start"] for rec in recs]
    for m, step in ((n, -1), (n + 1, 1)):
        k = max(i for i, s in enumerate(starts) if s <= m)
        recs[k]["f"][m - starts[k]] += step
    ck.write_text("\n".join([lines[0], *map(json.dumps, recs)]) + "\n")
    rc, out, _ = _cli(SPAN + ["--workers", workers, "--checkpoint", str(ck), "--resume"])
    assert rc == 0
    changed = [a for a, b in zip(out.splitlines(), csv.splitlines()) if a != b]
    assert [int(row.split(",")[0]) for row in changed] == [n, n + 1]


def _bug_1(recs):
    """Every running pi(n^2) lowered by 10^4, written where format 3 kept it;
    format 4 has no such field, and a resume does not read it."""
    pi = 4  # pi(3^2)
    for rec in recs:
        fs = rec["f"]
        rec["pi_n2"] = [pi + sum(fs[:i]) - 10**4 for i in range(len(fs))]
        pi += sum(fs)


def _bug_2(recs):
    recs[1]["f"][615 - 515] += 1  # f(615) + 1


def _bug_3(recs):
    recs[0]["f"][:2] = [-1, 6]  # f(3) = -1 and f(4) = 6: the sum is kept


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("target", ["c2", "lemmas"])
@pytest.mark.parametrize("edit, to_n, want", [
    pytest.param(_bug_1, 1100, 0, id="bug-1-pi_n2-lowered"),
    pytest.param(_bug_2, 1600, 3, id="bug-2-f-raised"),
    pytest.param(_bug_3, 10, 2, id="bug-3-negative-f"),
])
def test_checkpoint_edits_that_once_went_through(tmp_path, target, workers, edit, to_n, want):
    """Three edits that a complete resume once turned into exit 0 with changed
    rows, or into exit 1 with false lemma-2 violations."""
    ck = tmp_path / "ck.txt"
    argv = ["verify", target, "--from", "3", "--to", str(to_n), "--workers", workers, "--checkpoint", str(ck),
            "--format", "csv" if target == "c2" else "json"]
    rc, good, _ = _cli(argv)
    assert rc == 0
    header, *lines = ck.read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    edit(recs)
    ck.write_text("\n".join([header, *map(json.dumps, recs)]) + "\n")
    rc, out, err = _cli(argv + ["--resume"])
    assert rc == want
    if want:
        assert out == "" and err.count("\n") == 1
    else:
        fresh_bytes = out == good  # named, so a failure does not diff two whole outputs
        assert fresh_bytes
