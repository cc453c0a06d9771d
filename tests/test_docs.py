"""Drift guards for the documentation system (see docs/README.md).

The heavyweight check — executing every fenced python snippet — lives
in ``tools/docs_check.py`` (``make docs-check``, its own CI job). These
tests are the cheap structural guards that run with the tier-1 suite:
links resolve, the README's scheme table is exactly the registry's
generated output, and the docs index covers every document.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.cli import schemes_markdown

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

_spec = importlib.util.spec_from_file_location(
    "docs_check", REPO_ROOT / "tools" / "docs_check.py"
)
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)


def test_every_relative_link_resolves():
    failures = []
    for path in docs_check.markdown_files():
        prose, _ = docs_check.split_fences(path.read_text(encoding="utf-8"))
        failures.extend(docs_check.check_links(path, prose))
    assert failures == []


def test_readme_scheme_table_matches_registry_output():
    """The README table between the markers is byte-identical to
    ``python -m repro schemes --markdown`` — edit the registry, then
    regenerate; hand-edits to the table fail here."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    begin = "<!-- BEGIN GENERATED SCHEME TABLE -->"
    end = "<!-- END GENERATED SCHEME TABLE -->"
    assert begin in text and end in text
    embedded = text.split(begin, 1)[1].split(end, 1)[0].strip()
    assert embedded == schemes_markdown()


def test_docs_index_lists_every_document():
    index = (DOCS / "README.md").read_text(encoding="utf-8")
    on_disk = {p.name for p in DOCS.glob("*.md")} - {"README.md"}
    missing = {name for name in on_disk if f"({name})" not in index}
    assert missing == set(), (
        f"docs/README.md does not index: {sorted(missing)}"
    )


@pytest.mark.parametrize(
    "doc,must_mention",
    [
        ("observability.md", "contended_acquisitions"),
        ("observability.md", "attach_shard_observer"),
        ("robustness.md", "shards=4"),
        ("robustness.md", "runtime=True"),
        ("paper_map.md", "AsyncTimerService"),
        ("paper_map.md", "scheme8_lawn"),
        ("performance.md", "BENCH_millions.json"),
        ("performance.md", "SoATimerStore"),
        ("async_runtime.md", "BENCH_async_idle.json"),
        ("api.md", "scheme_names"),
        ("durability.md", "DurableSpec"),
        ("durability.md", "BENCH_durable.json"),
        ("robustness.md", "durability.md"),
        ("paper_map.md", "DurableScheduler"),
        ("paper_map.md", "scheme_gsq"),
        ("paper_map.md", "BENCH_rearm.json"),
        ("performance.md", "BENCH_rearm.json"),
        ("api.md", "update_timer"),
        ("api.md", "restart_timer"),
        ("backends.md", "ShardBackend"),
        ("backends.md", "SharedSoATimerStore"),
        ("backends.md", "ShardFaultError"),
        ("backends.md", "backend_availability"),
        ("sharding.md", "ShardBackend"),
        ("sharding.md", "backends.md"),
        ("paper_map.md", "MultiprocessingBackend"),
        ("api.md", "ShardBackend"),
    ],
)
def test_docs_cover_the_newer_subsystems(doc, must_mention):
    """The drift this PR fixed stays fixed: each doc names the API
    surface it documents."""
    assert must_mention in (DOCS / doc).read_text(encoding="utf-8")


def test_checker_rejects_a_broken_link(tmp_path):
    page = DOCS / "api.md"  # any real file, for relative resolution
    failures = docs_check.check_links(
        page, ["see [missing](no/such/file.md) here"]
    )
    assert len(failures) == 1 and "no/such/file.md" in failures[0]
    # ...but external and fragment-only targets are exempt
    assert docs_check.check_links(
        page,
        ["[x](https://example.com) [y](#section) `[z](not/a/link.md)`"],
    ) == []
