"""``RunOptions`` stays in step with what documents and records it."""

import dataclasses
import re
from pathlib import Path

from repro.api import RunOptions
from repro.obs.prov import _OPTION_FIELDS, _UNRECORDED_OPTION_FIELDS

FIELDS = [f.name for f in dataclasses.fields(RunOptions)]


def test_api_doc_table_lists_every_field_in_order():
    api_md = Path(__file__).resolve().parents[2] / "docs" / "api.md"
    section = api_md.read_text().split("## `repro.RunOptions`")[1].split("\n## ")[0]
    assert re.findall(r"(?m)^\| `(\w+)` \|", section) == FIELDS


def test_every_field_is_recorded_in_the_header_or_named_as_left_out():
    recorded, left_out = set(_OPTION_FIELDS), set(_UNRECORDED_OPTION_FIELDS)
    assert not recorded & left_out
    assert recorded | left_out == set(FIELDS)
    assert len(_OPTION_FIELDS) + len(_UNRECORDED_OPTION_FIELDS) == len(FIELDS) == 20
