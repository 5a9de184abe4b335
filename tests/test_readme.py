"""README's "Library use" example runs as written, and its range table
names every ranged configuration field.

The block is read from README.md and executed in a temporary directory
that holds the files it names: ref.ply, dist.ply and a manifest of 3
references with 2 distortions each.
"""

import dataclasses
import math
import os
import re

from pcqkit.config import _LEGAL, Config
from pcqkit.io_ply import save_ply
from pcqkit.pipeline import FEATURE_COLUMNS

from conftest import jitter, surface_cloud

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def library_use_block() -> str:
    with open(README) as stream:
        text = stream.read()
    found = re.search(r"^## Library use\n\n```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert found, "README has no python block under 'Library use'"
    return found.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    lines = ["group_id,ref_path,dist_path,mos,mos_std"]
    for g in range(3):
        ref = surface_cloud(300, seed=80 + g)
        save_ply(ref, tmp_path / f"ref{g}.ply")
        for lvl, sigma in enumerate((0.5, 2.0)):
            save_ply(jitter(ref, sigma, seed=90 + 10 * g + lvl,
                            color_sigma=3.0 * sigma),
                     tmp_path / f"d{g}_{lvl}.ply")
            lines.append(f"g{g},ref{g}.ply,d{g}_{lvl}.ply,"
                         f"{4.5 - 2.0 * lvl - 0.3 * g},0.4")
    (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
    for src, dst in (("ref0.ply", "ref.ply"), ("d0_1.ply", "dist.ply")):
        (tmp_path / dst).write_bytes((tmp_path / src).read_bytes())

    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), README, "exec"), namespace)

    assert set(FEATURE_COLUMNS) <= set(namespace["metrics"])
    assert math.isfinite(namespace["d1"])
    assert len(namespace["table"]) == 6
    assert namespace["stats"]["n_computed"] == 6
    assert len(namespace["scores"]) == 6
    assert [m.name for m in namespace["report"].metrics] == ["fsm"]


def range_table_fields() -> set:
    """Config fields that README's range table has a row for."""
    with open(README) as stream:
        cells = re.findall(r"^\| (`\[\w+\] .*?) \|", stream.read(),
                           re.MULTILINE)
    fields = set()
    for cell in cells:
        section = re.match(r"`\[(\w+)\]", cell).group(1)
        keys = re.findall(r"`(?:\[\w+\] )?(\w+)`", cell)
        if "..." in cell:   # `k1` ... `k8` names k1 to k8
            prefix = keys[0].rstrip("0123456789")
            first, last = (int(key[len(prefix):]) for key in keys)
            keys = [f"{prefix}{i}" for i in range(first, last + 1)]
        fields.update(f"{section}_{key}" for key in keys)
    return fields


def test_range_table_has_a_row_for_every_ranged_field():
    # a choice (str) or a flag (bool) has no range
    ranged = {f.name for f in dataclasses.fields(Config)
              if f.name in _LEGAL and f.type not in (str, bool)}
    rows = range_table_fields()
    assert ranged - rows == set()
    assert rows - ranged == set()
