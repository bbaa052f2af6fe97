"""The five digests the CI workflow pins, rebuilt in-process with the workflow's recipes.

Each test repeats one check of ``.github/workflows/tests.yml`` on the source
tree, so a change to these bytes fails the tier-1 suite too, and not only the
packaging smoke test.  The digests are the workflow's; an intended format
change updates both places.
"""
import dataclasses
import hashlib

from treea1 import (
    LevelAudit,
    check_rearrangement_bound,
    make_shape,
    random_weight,
    weight_hash,
    weight_to_text,
)
from treea1.cli import main

GRID = "1,2,3,5,10,100".split(",")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_audit_records_of_the_1024_leaf_report():
    report = check_rearrangement_bound(random_weight(make_shape(2, 10), 0, GRID), properties=True, with_audits=True)
    flags = (report.stopping_consistent, report.growth_bound_ok, report.weak_type_ok, report.decomposition_ok)

    def cell(value):  # a node tuple as level.index items, anything else as str()
        return ",".join(f"{node.level}.{node.index}" for node in value) if type(value) is tuple else str(value)

    names = [field.name for field in dataclasses.fields(LevelAudit)]
    text = "".join(
        " ".join([str(a.t), str(a.dominates_prefix), str(a.measures_ordered),
                  *(cell(getattr(a.level, name)) for name in names)]) + "\n"
        for a in report.audits
    )
    assert len(report.audits) == 2048 and all(a.passed for a in report.audits)
    assert all(flag is True for flag in flags)
    assert sha256(text.encode()) == "7b1519098e1390c8114d87f2b01d4125c53a4271b657c439c714472c35ed9a1f"


def test_inspect_json_at_one_t_on_4096_leaves(tmp_path, capsys):
    weight_file = tmp_path / "weight-4096.txt"
    weight_file.write_text(weight_to_text(random_weight(make_shape(2, 12), 0, GRID)))
    assert main(["inspect", "--weight", str(weight_file), "--t", "77/8192", "--json"]) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode()) == "c2ff9f10dd13b99e9d2afd7811b25b1a4391fdc93f4cff99ce82e438148d4b01"


def test_report_of_a_grid_value_below_the_floats(tmp_path, capsys):
    assert main(["verify", "--k", "2", "--depth", "1", "--grid", "1e-400,1", "--trials", "3",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = sha256((tmp_path / "report.csv").read_bytes())
    assert digest == "98898ef7117a8d1feb50a057d5c8b97ab1e1d212c896c9d748be35da33f29138"


def test_search_summary(tmp_path, capsys):
    assert main(["search", "--k", "2", "--depth", "3", "--iters", "200", "--restarts", "2", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = sha256((tmp_path / "summary.json").read_bytes())
    assert digest == "38fe2764833a6a61f9ef98832d1855d2beee548141e04951b45a9d51b780bdf2"


def test_hash_of_the_65536_leaf_draw():
    digest = weight_hash(random_weight(make_shape(2, 16), 0, GRID))
    assert digest == "6d967ca0e9745a1a41ea3493bd95fd94b8ddffc332f2de227f3f6dda14d480fd"
