"""Byte-for-byte pins on the default report and on a checkpointed campaign.

The digests were recorded from the implementation that ran c1, c2, theorem
and implication as four separate campaigns; a refactor of rows, folds or
checkpoint writes must reproduce them exactly.
"""

import hashlib

from primesq import cli

REPORT_ALL_JSON = "70e33a9f6341af548bc718466e9459d72a87e15129a000f9dc1991f07e590fd1"
C2_CSV = "3e0b6bf6a7e00c66b0147e4c41c14b7b94141080eafa2a85e82995e27ebeac91"
C2_CHECKPOINT = "510e1d2687bed1ee7bf4a20fab597e9740a25f8f9bc6672205f0b2411ec78871"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_report_all_json_digest(capsys):
    assert cli.main(["report", "all", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == REPORT_ALL_JSON


def test_c2_csv_and_checkpoint_digests(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    assert cli.main(["verify", "c2", "--from", "3", "--to", "1100",
                     "--format", "csv", "--checkpoint", str(ck)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == C2_CSV
    assert _sha256(ck.read_bytes()) == C2_CHECKPOINT
