"""Byte-for-byte golden outputs of the CLI data files.

The sha256 values were recorded before the verification path was merged into
one report per weight, so a refactor that changes a report column, a number's
formatting or the order of rows fails here; an intended format change must
update them.
"""
import hashlib

import pytest

from treea1 import extremal_exact, weight_to_text
from treea1.cli import main

GOLDEN = {
    "verify_exhaustive": (
        ["verify", "--exhaustive", "--k", "2", "--depth", "2", "--grid", "1,2,3"],
        {"report.csv": "ae322da78e0d3a33bd48cda761ee9cdd94286e86d39e5db9b02197d192c8b23a"},
    ),
    "verify_fuzz": (
        ["verify", "--k", "3", "--depth", "2", "--trials", "40", "--seed", "7", "--threads", "2"],
        {"report.csv": "857f6e55145aa0eafc1756cbad506ba9cb94ae649e9c8c632c8d3b244af977cf"},
    ),
    "extremal_paper": (
        ["extremal", "--mode", "paper", "--k", "2", "--c", "2", "--depths", "4,6"],
        {"sweep.csv": "827e7c7a2b41b79ce1776145c7505e2b37d5c9c40829da74ea082a5d550a9137"},
    ),
    "extremal_exact": (
        ["extremal", "--mode", "exact", "--k", "2", "--c", "2"],
        {"sweep.csv": "1589cba87404349e0e611c2ea4e36f0df8bf3ce1494c645cfe7816e9efb820d3"},
    ),
    "search": (
        ["search", "--k", "2", "--depth", "2", "--iters", "150", "--restarts", "2", "--seed", "5"],
        {
            "trace.csv": "eb4660c2817304522a4064f818b963662d452393c26c8ae95b8da953e19b6fba",
            "best_weight.txt": "0f72a921cf313bb3265dadb83d0ae4162e24e02a2c6f3499ce82cff833c480c0",
            "summary.json": "bbc45a3c3c67102c98a3bc36449632a836039f343242ff55cef8af74680c21e4",
        },
    ),
}

INSPECT_JSON = "dea85407bcf42992fb5640696424d76a575a3c5cfb6511f4a23aa5ede5673f28"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_files_match_golden_digests(name, tmp_path, capsys):
    argv, expected = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {file: sha256((tmp_path / file).read_bytes()) for file in expected} == expected


def test_inspect_json_matches_golden_digest(tmp_path, capsys):
    weight_file = tmp_path / "w.txt"
    weight_file.write_text(weight_to_text(extremal_exact(2, 2)))
    assert main(["inspect", "--weight", str(weight_file), "--json", "--t", "3/8"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == INSPECT_JSON
