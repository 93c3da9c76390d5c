"""Documentation ↔ code consistency: the docs must not rot."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


def _resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.c`` names something: the longest importable
    module prefix, then ``getattr`` for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestDeliverablesPresent:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
            "CONTRIBUTING.md", "CHANGELOG.md", "pyproject.toml",
            "docs/paper_mapping.md", "docs/cost_model.md",
            "docs/tutorial.md", "docs/extending.md",
            "docs/observability.md", "docs/robustness.md",
        ],
    )
    def test_file_exists_and_non_trivial(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 200, name


class TestDesignIndex:
    def test_every_bench_target_in_design_exists(self):
        design = read("DESIGN.md")
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert targets, "DESIGN.md must index bench targets"
        missing = [t for t in targets if not (ROOT / "benchmarks" / t).exists()]
        assert not missing, missing

    def test_every_bench_file_emits_results(self):
        # Each benchmark must call emit(...) so its artifact lands in
        # benchmarks/results/.
        missing = []
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            if "emit(" not in path.read_text():
                missing.append(path.name)
        assert not missing, missing

    def test_modules_named_in_design_exist(self):
        # DESIGN.md indexes the modules; the README and the docs name
        # them in prose and must not point at deleted ones either.
        pages = ["DESIGN.md", "README.md"] + sorted(
            str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")
        )
        missing = [
            f"{page}: {module}"
            for page in pages
            for module in sorted(set(re.findall(r"`(repro/[\w/]+\.py)`", read(page))))
            if not (ROOT / "src" / module).exists()
        ]
        assert not missing, missing

    def test_dotted_names_in_docs_resolve(self):
        # A backticked `repro.module.name` (or `repro.module.name(...)`)
        # in the README, DESIGN or the docs must still import.
        pages = ["README.md", "DESIGN.md"] + sorted(
            str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")
        )
        named = [
            (page, dotted)
            for page in pages
            for dotted in sorted(
                set(re.findall(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`", read(page)))
            )
        ]
        assert named, "the docs name no repro.* objects"
        missing = [f"{page}: {dotted}" for page, dotted in named if not _resolves(dotted)]
        assert not missing, missing

    def test_scripts_named_in_docs_exist(self):
        # A deleted script must not stay named in the docs or the verify
        # skill.  A name with a ``*`` must match at least one script.
        pages = ["README.md", "CONTRIBUTING.md", "DESIGN.md"] + sorted(
            str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md")
        ) + [".claude/skills/verify/SKILL.md"]
        missing = [
            f"{page}: {script}"
            for page in pages
            for script in sorted(
                set(re.findall(r"(?<![\w/])(scripts/[\w*.-]+\.py)", read(page)))
            )
            if not any(ROOT.glob(script))
        ]
        assert not missing, missing


class TestExperimentsRecord:
    def test_mentions_every_paper_asset(self):
        experiments = read("EXPERIMENTS.md")
        for asset in (
            "Table 3", "Table 4", "Table 7",
            "Figure 12", "Figure 13", "Figure 14", "Figure 15",
            "Figure 16", "Figure 17", "PeopleAge",
        ):
            assert asset in experiments, asset
        # the scalability figures are covered as a block
        assert "Figures 8–11" in experiments or "Figures 8-11" in experiments

    def test_every_named_bench_exists(self):
        experiments = read("EXPERIMENTS.md")
        names = set(re.findall(r"bench_\w+", experiments))
        bench_files = [p.stem for p in (ROOT / "benchmarks").glob("bench_*.py")]
        # Prose may use range shorthand ("bench_fig08..11"), so a name
        # counts as resolved when some bench file starts with it.
        missing = [
            name
            for name in names
            if not any(stem.startswith(name) for stem in bench_files)
        ]
        assert not missing, missing


class TestReadme:
    def test_examples_listed_exist(self):
        readme = read("README.md")
        for script in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / script).exists(), script

    def test_cites_the_paper(self):
        readme = read("README.md")
        assert "SIGMOD 2017" in readme
        assert "3035918.3035953" in readme  # the DOI

    def test_mentions_offline_install_fallback(self):
        assert "setup.py develop" in read("README.md")


class TestMetricCatalog:
    """docs/observability.md's metric tables must match what the code
    emits — both directions, so neither side can rot."""

    #: Metric name literals the library creates instruments for —
    #: directly or through RacingPool's cached-handle ``_counter`` helper.
    SOURCE_METRIC = re.compile(
        r'\.(?:counter|gauge|histogram|_counter)\(\s*\n?\s*"([a-z0-9_]+)"'
    )
    #: First-column `name` / `name{labels}` cells of the docs tables.
    DOC_METRIC = re.compile(r"^\| `([a-z0-9_]+)(?:\{[^}]*\})?` \|", re.M)

    def _source_names(self) -> set:
        names = set()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            names |= set(self.SOURCE_METRIC.findall(path.read_text()))
        return names

    def _doc_names(self) -> set:
        # Only the "Metric catalog" section tables name metrics; later
        # tables (flight-recorder event types, HTTP routes) do not.
        text = read("docs/observability.md")
        start = text.index("## Metric catalog")
        end = text.index("\n## ", start + 1)
        return set(self.DOC_METRIC.findall(text[start:end]))

    def test_every_emitted_metric_is_documented(self):
        undocumented = self._source_names() - self._doc_names()
        assert not undocumented, (
            f"metrics emitted but missing from docs/observability.md: "
            f"{sorted(undocumented)}"
        )

    def test_every_documented_metric_is_emitted(self):
        # Span names in the docs table are opened via span(), not
        # counter()/histogram(), so exclude the span table's rows.
        span_names = {"spr.select", "spr.partition", "spr.rank"}
        phantom = {
            name
            for name in self._doc_names() - self._source_names()
            if name not in span_names
        }
        assert not phantom, (
            f"metrics documented in docs/observability.md but never "
            f"emitted: {sorted(phantom)}"
        )

    def test_catalog_help_text_covers_no_phantom_metrics(self):
        from repro.telemetry.registry import METRIC_HELP

        phantom = set(METRIC_HELP) - self._source_names()
        assert not phantom, (
            f"METRIC_HELP entries without a matching instrument: "
            f"{sorted(phantom)}"
        )


class TestPaperMapping:
    def test_mapped_modules_exist(self):
        # Its dotted names are checked with every doc page's, above.
        mapping = read("docs/paper_mapping.md")
        for module in set(re.findall(r"`(repro/[\w/]+\.py)`", mapping)):
            assert (ROOT / "src" / module).exists(), module
